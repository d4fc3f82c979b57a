#include "rf/digital_backend.h"

#include <array>

#include "dsp/fir.h"

namespace analock::rf {

namespace {

/// Channel-filter cutoff (fraction of the output rate) per 3-bit digital
/// mode. All entries keep the sigma-delta metrology band (+/-0.25 of the
/// output Nyquist) inside the passband; narrower modes suit the
/// narrowband standards.
constexpr std::array<double, 8> kChannelCutoff = {
    0.45, 0.30, 0.30, 0.32, 0.30, 0.30, 0.40, 0.45};

}  // namespace

std::vector<double> DigitalBackend::channel_taps_for_mode(
    std::uint32_t mode) {
  return dsp::design_lowpass(kChannelCutoff[mode & 7u] / 2.0, 31,
                             dsp::WindowKind::kHamming);
}

}  // namespace analock::rf
