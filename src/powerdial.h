/**
 * @file
 * Umbrella header: the complete public PowerDial API.
 *
 * Include this to use the library end to end:
 *
 *   #include "powerdial.h"
 *
 *   MyApp app;                                   // implements core::App
 *   auto ident = powerdial::core::identifyKnobs(app);
 *   auto cal = powerdial::core::calibrate(app, app.trainingInputs());
 *   powerdial::core::Session session(app, ident.table, cal.model);
 *   auto &trace = session.attach<powerdial::core::BeatTraceRecorder>();
 *   powerdial::sim::Machine machine;
 *   auto run = session.run(input, machine);      // plain data: time,
 *                                                // QoS estimate, beats
 *   auto output = app.output();                  // the run's output
 *
 * Individual headers remain includable on their own; this file only
 * aggregates them.
 */
#ifndef POWERDIAL_POWERDIAL_H
#define POWERDIAL_POWERDIAL_H

// The paper's primary contribution.
#include "core/actuation_strategy.h"
#include "core/analytical.h"
#include "core/app.h"
#include "core/calibration.h"
#include "core/consolidation.h"
#include "core/control_policy.h"
#include "core/fanout.h"
#include "core/identify.h"
#include "core/knob.h"
#include "core/pareto.h"
#include "core/policy_advisor.h"
#include "core/response_model.h"
#include "core/run_observer.h"
#include "core/session.h"
#include "core/trace_export.h"

// Fleet serving: many controlled sessions as tenants of a cluster.
#include "fleet/admission.h"
#include "fleet/metrics_hub.h"
#include "fleet/power_arbiter.h"
#include "fleet/scheduler.h"
#include "fleet/server.h"

// Substrates.
#include "heartbeats/heartbeat.h"
#include "influence/analysis.h"
#include "influence/trace_run.h"
#include "influence/value.h"
#include "qos/distortion.h"
#include "qos/psnr.h"
#include "qos/retrieval.h"
#include "sim/cluster.h"
#include "sim/dvfs_governor.h"
#include "sim/frequency.h"
#include "sim/machine.h"
#include "sim/power_model.h"
#include "sim/virtual_clock.h"
#include "workload/arrivals.h"
#include "workload/load_trace.h"
#include "workload/traffic_mix.h"
#include "workload/zipf.h"

#endif // POWERDIAL_POWERDIAL_H
