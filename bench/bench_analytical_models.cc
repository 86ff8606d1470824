/**
 * @file
 * Numerical sweeps of the section 3 analytical models: DVFS energy
 * (Equation 12, Figure 3), DVFS + dynamic knobs (Equations 13-19,
 * Figure 4), and server consolidation (Equations 20-24).
 */
#include "bench_common.h"
#include "core/analytical.h"

using namespace powerdial;
using namespace powerdial::core::analytical;
using powerdial::bench::banner;

int
main(int argc, char **argv)
{
    powerdial::bench::parseFlags(argc, argv, {}, "usage: %s\n");

    // A task of 10 s at 2.4 GHz on the paper's platform; the DVFS
    // state stretches it per the frequency ratio (CPU-bound model).
    const DvfsPowers powers{205.0, 165.0, 90.0};
    const double t1 = 10.0;
    const double t2 = stretchedTime(t1, 2.4e9, 1.6e9);
    const TaskTiming timing{t1, t2 - t1};

    banner("Equation 12: DVFS energy accounting");
    std::printf("E_nodvfs = %.0f J, E_dvfs = %.0f J, savings = %.0f J\n",
                energyNoDvfs(powers, timing), energyDvfs(powers, timing),
                dvfsSavings(powers, timing));

    banner("Equations 13-19: energy vs knob speedup S(QoS)");
    std::printf("%10s %14s %14s\n", "S(QoS)", "E_elastic_J",
                "savings_J");
    for (const double s : {1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0}) {
        std::printf("%10.1f %14.0f %14.0f\n", s,
                    energyElasticDvfs(powers, timing, s),
                    elasticSavings(powers, timing, s));
    }

    banner("Race-to-idle vs low-power state as P_idle varies (S = 2)");
    std::printf("%12s %16s\n", "P_idle_W", "E_elastic_J");
    for (const double idle : {10.0, 30.0, 60.0, 90.0, 120.0, 150.0}) {
        const DvfsPowers p{205.0, 165.0, idle};
        std::printf("%12.0f %16.0f\n", idle,
                    energyElasticDvfs(p, timing, 2.0));
    }

    banner("Equations 20-24: consolidation vs speedup");
    std::printf("%10s %8s %8s %14s %14s %12s\n", "S(QoS)", "N_orig",
                "N_new", "P_orig_W", "P_new_W", "saved_W");
    for (const double s : {1.0, 1.34, 1.5, 2.0, 3.0, 4.0, 8.0}) {
        ConsolidationModel m;
        m.n_orig = 4;
        m.work_per_machine = 8.0;
        m.speedup = s;
        m.u_orig = 0.25;
        m.p_load = 220.0;
        m.p_idle = 90.0;
        const auto r = consolidate(m);
        std::printf("%10.2f %8zu %8zu %14.0f %14.0f %12.0f\n", s,
                    m.n_orig, r.n_new, r.p_orig_watts, r.p_new_watts,
                    r.p_save_watts);
    }
    return 0;
}
