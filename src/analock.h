// Umbrella header for the analock library: locking of programmable
// analog ICs via the programmability fabric (Elshamy et al., DATE 2020).
//
// Typical usage pulls in this one header and links the analock_* static
// libraries; see examples/quickstart.cpp for the full lifecycle.
#pragma once

// Simulation substrate: deterministic RNG, units, process corners.
#include "sim/bitfield.h"
#include "sim/process.h"
#include "sim/rng.h"
#include "sim/units.h"

// DSP substrate: FFT, spectral metrology, filters, stimuli.
#include "dsp/fft_plan.h"
#include "dsp/fir.h"
#include "dsp/spectrum.h"
#include "dsp/tonegen.h"
#include "dsp/window.h"

// The demonstration vehicle: programmable multi-standard RF receiver.
#include "rf/bp_sigma_delta.h"
#include "rf/digital_backend.h"
#include "rf/lane_constants.h"
#include "rf/lc_tank.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"
#include "rf/sd_blocks.h"
#include "rf/standards.h"
#include "rf/vglna.h"

// Fault-injection campaign layer: deterministic, seeded fault plans
// threaded through the oracles, the fabric word, the PUF and the
// activation channel.
#include "fault/crc32.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/lossy_channel.h"

// The locking scheme: keys, evaluation, key management, activation.
#include "lock/evaluator.h"
#include "lock/key64.h"
#include "lock/key_layout.h"
#include "lock/key_manager.h"
#include "lock/locked_receiver.h"
#include "lock/puf.h"
#include "lock/remote_activation.h"
#include "lock/remote_activation_session.h"

// The secret calibration procedure.
#include "calib/bias_optimizer.h"
#include "calib/calibrator.h"
#include "calib/oscillation_tuner.h"

// The attack suite and cost model.
#include "attack/brute_force.h"
#include "attack/cost_model.h"
#include "attack/multi_objective.h"
#include "attack/retrace.h"
#include "attack/subblock.h"
#include "attack/warm_start.h"
