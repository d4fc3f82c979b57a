#include "fault/fault_plan.h"

#include <cstdio>

namespace analock::fault {

bool FaultPlan::active() const {
  return meas_spike_prob > 0.0 || meas_dropout_prob > 0.0 ||
         stuck_at0_bits > 0 || stuck_at1_bits > 0 || puf_flip_prob > 0.0 ||
         msg_loss_prob > 0.0 || msg_corrupt_prob > 0.0 ||
         msg_delay_prob > 0.0;
}

std::string FaultPlan::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "campaign=%s seed=%llu spike=%.3f dropout=%.3f stuck=%u/%u "
                "puf_flip=%.3f loss=%.3f corrupt=%.3f delay=%.3f",
                campaign_id.c_str(), (unsigned long long)seed,
                meas_spike_prob, meas_dropout_prob, stuck_at0_bits,
                stuck_at1_bits, puf_flip_prob, msg_loss_prob,
                msg_corrupt_prob, msg_delay_prob);
  return buf;
}

}  // namespace analock::fault
