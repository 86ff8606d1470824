/**
 * @file
 * Reproduces Table 1: summary of training and production inputs for
 * each benchmark (with this repository's synthetic substitutions).
 */
#include "bench_common.h"

using namespace powerdial;
using namespace powerdial::bench;

namespace {

void
row(core::App &app, const std::string &training,
    const std::string &production, const std::string &source)
{
    std::printf("%-10s | %-28s | %-28s | %s\n", app.name().c_str(),
                training.c_str(), production.c_str(), source.c_str());
}

std::string
count(std::size_t n, const std::string &what)
{
    return std::to_string(n) + " " + what;
}

} // namespace

int
main(int argc, char **argv)
{
    parseFlags(argc, argv, {}, "usage: %s\n");
    banner("Table 1: Training and Production Inputs");
    std::printf("%-10s | %-28s | %-28s | %s\n", "benchmark",
                "training inputs", "production inputs", "source");
    std::printf("%s\n", std::string(110, '-').c_str());

    {
        auto app = makeSwaptions();
        row(*app,
            count(app->trainingInputs().size(), "portfolios (24 swaptions)"),
            count(app->productionInputs().size(),
                  "portfolios (24 swaptions)"),
            "randomly generated swaptions (PARSEC-style)");
    }
    {
        auto app = makeVidenc();
        row(*app, count(app->trainingInputs().size(), "synthetic clips"),
            count(app->productionInputs().size(), "synthetic clips"),
            "procedural video source (1080p stand-in)");
    }
    {
        auto app = makeBodytrack();
        row(*app,
            count(app->trainingInputs().size(), "walk sequences"),
            count(app->productionInputs().size(), "walk sequences"),
            "synthetic articulated-body walker");
    }
    {
        auto app = makeSearchx();
        row(*app, count(app->trainingInputs().size(), "query batches"),
            count(app->productionInputs().size(), "query batches"),
            "Zipf corpus + power-law queries (Gutenberg stand-in)");
    }

    std::printf("\npaper: swaptions 64/512 swaptions; x264 4/12 HD "
                "videos; bodytrack 100/261 frames; swish++ 2000/2000 "
                "books\n");
    return 0;
}
