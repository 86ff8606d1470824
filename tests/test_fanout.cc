/** @file Tests for the deterministic clone fan-out engine. */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/fanout.h"
#include "core/identify.h"
#include "toy_app.h"

namespace powerdial::core {
namespace {

using tests::ToyApp;

// ---------------------------------------------------------------------
// Dispatch and merge order.
// ---------------------------------------------------------------------

TEST(FanoutEngine, SerialModeRunsAscendingOnWorkerZero)
{
    FanoutEngine engine(1);
    EXPECT_EQ(engine.workers(), 1u);
    std::vector<std::size_t> order;
    engine.run(5, [&](std::size_t task, std::size_t worker) {
        EXPECT_EQ(worker, 0u);
        order.push_back(task);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(FanoutEngine, MapMergesInTaskOrderRegardlessOfThreads)
{
    // Whatever order the workers claim tasks in, each result lands in
    // its task's slot — the fixed-order merge of the convention.
    for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
        FanoutEngine engine(threads);
        const auto results = engine.map(
            32, [](std::size_t task, std::size_t /*worker*/) {
                return 10 * task + 1;
            });
        ASSERT_EQ(results.size(), 32u) << "threads=" << threads;
        for (std::size_t i = 0; i < results.size(); ++i)
            EXPECT_EQ(results[i], 10 * i + 1) << "threads=" << threads;
    }
}

TEST(FanoutEngine, PooledOutputMatchesSerialOutput)
{
    const auto job = [](std::size_t task, std::size_t /*worker*/) {
        double acc = 0.0;
        for (std::size_t i = 0; i <= task; ++i)
            acc += static_cast<double>(i * task) / 3.0;
        return acc;
    };
    FanoutEngine serial(1);
    FanoutEngine pooled(4);
    EXPECT_EQ(serial.map(20, job), pooled.map(20, job));
}

TEST(FanoutEngine, ThreadsCappedByMaxTasks)
{
    // No point in more workers (each typically owning a full app
    // clone) than there are tasks to claim.
    FanoutEngine engine(8, 3);
    EXPECT_EQ(engine.workers(), 3u);

    FanoutEngine one(8, 1);
    EXPECT_EQ(one.workers(), 1u);
}

TEST(FanoutEngine, MoreWorkersThanTasksInOneJobStillCompletes)
{
    // An engine dispatching fewer tasks than it has workers must not
    // hang or drop tasks (calibration's baseline pass is smaller than
    // its sweep, on the same engine).
    FanoutEngine engine(4);
    std::atomic<std::size_t> ran{0};
    engine.run(2, [&](std::size_t, std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 2u);
    // tasks <= 1 short-circuits to the caller's thread.
    engine.run(1, [&](std::size_t task, std::size_t worker) {
        EXPECT_EQ(task, 0u);
        EXPECT_EQ(worker, 0u);
        ++ran;
    });
    EXPECT_EQ(ran.load(), 3u);
    engine.run(0, [&](std::size_t, std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 3u);
}

TEST(FanoutEngine, RunsEveryTaskExactlyOnce)
{
    FanoutEngine engine(4);
    EXPECT_EQ(engine.workers(), 4u);
    std::vector<int> hits(100, 0);
    engine.run(hits.size(), [&](std::size_t task, std::size_t worker) {
        ASSERT_LT(worker, engine.workers());
        ++hits[task];
    });
    for (const int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(FanoutEngine, CallerIsWorkerZeroAndWorkersRunTogether)
{
    // Four tasks that each wait for all four to arrive can only finish
    // if four workers run at once; the engine's caller must be one of
    // them, as worker 0, beside three helper threads.
    constexpr std::size_t kWorkers = 4;
    FanoutEngine engine(kWorkers);
    struct Ran
    {
        std::size_t worker = kWorkers;
        std::thread::id thread;
        bool met = false; //!< All four arrived before the timeout.
    };
    std::vector<Ran> ran(kWorkers);
    std::mutex mutex;
    std::condition_variable all_arrived;
    std::size_t arrived = 0;
    engine.run(kWorkers, [&](std::size_t task, std::size_t worker) {
        ran[task].worker = worker;
        ran[task].thread = std::this_thread::get_id();
        std::unique_lock<std::mutex> lock(mutex);
        ++arrived;
        all_arrived.notify_all();
        // A timeout fails the test instead of hanging it.
        ran[task].met = all_arrived.wait_for(
            lock, std::chrono::seconds(30),
            [&] { return arrived == kWorkers; });
    });

    std::set<std::size_t> workers;
    std::set<std::thread::id> threads;
    for (const Ran &r : ran) {
        EXPECT_TRUE(r.met);
        workers.insert(r.worker);
        threads.insert(r.thread);
        if (r.worker == 0) {
            EXPECT_EQ(r.thread, std::this_thread::get_id());
        }
    }
    EXPECT_EQ(workers, (std::set<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(threads.size(), kWorkers);
}

TEST(FanoutEngine, ZeroThreadsResolvesToHardwareConcurrency)
{
    FanoutEngine engine(0);
    EXPECT_GE(engine.workers(), 1u);
}

// ---------------------------------------------------------------------
// Exception propagation.
// ---------------------------------------------------------------------

TEST(FanoutEngine, ExceptionPropagatesSeriallyAndPooled)
{
    for (const std::size_t threads : {1u, 4u}) {
        FanoutEngine engine(threads);
        EXPECT_THROW(
            engine.run(8,
                       [](std::size_t task, std::size_t) {
                           if (task == 5)
                               throw std::runtime_error("task 5");
                       }),
            std::runtime_error)
            << "threads=" << threads;
        // The engine stays usable for the next job.
        std::atomic<std::size_t> ran{0};
        engine.run(4, [&](std::size_t, std::size_t) { ++ran; });
        EXPECT_EQ(ran.load(), 4u) << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------
// Clone preamble helpers.
// ---------------------------------------------------------------------

TEST(FanoutEngine, CloneBoundRebindsTablesOntoPrivateClones)
{
    ToyApp app;
    auto ident = identifyKnobs(app);
    ASSERT_TRUE(ident.analysis.accepted);

    auto bound = FanoutEngine::cloneBound(app, ident.table, 3);
    ASSERT_EQ(bound.size(), 3u);
    ASSERT_EQ(bound.apps.size(), 3u);
    ASSERT_EQ(bound.tables.size(), 3u);

    // Applying through table i moves clone i's control variable and
    // nothing else.
    const double original_k = app.k();
    bound.tables[1].apply(3);
    const auto *moved = dynamic_cast<ToyApp *>(bound.apps[1].get());
    const auto *still = dynamic_cast<ToyApp *>(bound.apps[0].get());
    ASSERT_NE(moved, nullptr);
    ASSERT_NE(still, nullptr);
    EXPECT_EQ(moved->k(), app.knobSpace().valuesOf(3)[0]);
    EXPECT_EQ(still->k(), original_k);
    EXPECT_EQ(app.k(), original_k);
}

} // namespace
} // namespace powerdial::core
