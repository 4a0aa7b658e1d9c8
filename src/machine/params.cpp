#include "machine/params.hpp"

#include "util/error.hpp"
#include "util/table.hpp"

namespace hpmm {

MachineParams MachineParams::with_cpu_speedup(double k) const {
  require(k > 0.0, "with_cpu_speedup: factor must be positive");
  MachineParams out = *this;
  out.t_s = t_s * k;
  out.t_w = t_w * k;
  out.t_h = t_h * k;
  out.label = label + " (cpu x" + format_number(k) + ")";
  return out;
}

// Note on word size: the simulator charges t_w per *element* moved, and the
// matrices hold 8-byte doubles — so per_word_time must be quoted for the
// same word the message payloads use. A figure measured per 4-byte word
// (like the paper's CM-5 numbers) understates double traffic by 2x unless
// the caller doubles it first; cm5_measured() below deliberately keeps the
// paper's own per-4-byte-word figure because Eq. 18's constants (and our
// regression tests against them) were derived from it.
MachineParams MachineParams::from_physical(double flop_time, double startup_time,
                                           double per_word_time,
                                           std::string label) {
  require(flop_time > 0.0, "from_physical: flop_time must be positive");
  MachineParams out;
  out.t_s = startup_time / flop_time;
  out.t_w = per_word_time / flop_time;
  out.label = std::move(label);
  return out;
}

namespace machines {

MachineParams ncube2() {
  MachineParams m;
  m.t_s = 150.0;
  m.t_w = 3.0;
  m.label = "nCUBE2-like (t_s=150, t_w=3)";
  return m;
}

MachineParams future_hypercube() {
  MachineParams m;
  m.t_s = 10.0;
  m.t_w = 3.0;
  m.label = "future hypercube (t_s=10, t_w=3)";
  return m;
}

MachineParams simd_cm2() {
  MachineParams m;
  m.t_s = 0.5;
  m.t_w = 3.0;
  m.label = "CM-2-like SIMD (t_s=0.5, t_w=3)";
  return m;
}

MachineParams cm5_measured() {
  // Section 9: 1.53 us per multiply-add, 380 us message startup, 1.8 us per
  // 4-byte word, as observed by the paper's implementation. Eq. 18 uses
  // these constants as-is (t_s = 380/1.53 = 248.37, t_w = 1.8/1.53 = 1.176),
  // so we keep the per-4-byte-word figure even though the simulator moves
  // 8-byte doubles; see the from_physical word-size note.
  MachineParams m = MachineParams::from_physical(1.53, 380.0, 1.8,
                                                 "CM-5 (measured, Section 9)");
  return m;
}

MachineParams ideal() {
  MachineParams m;
  m.t_s = 0.0;
  m.t_w = 0.0;
  m.label = "ideal (free communication)";
  return m;
}

std::span<const Preset> presets() {
  static constexpr Preset kPresets[] = {
      {"ncube2", ncube2}, {"future", future_hypercube}, {"cm2", simd_cm2},
      {"cm5", cm5_measured}, {"ideal", ideal}};
  return kPresets;
}

std::string preset_names(const std::string& separator) {
  std::string out;
  for (const Preset& p : presets()) {
    if (!out.empty()) out += separator;
    out += p.name;
  }
  return out;
}

MachineParams preset(const std::string& name) {
  for (const Preset& p : presets()) {
    if (name == p.name) return p.make();
  }
  throw PreconditionError("unknown machine '" + name + "' (expected one of " +
                          preset_names(", ") + ")");
}

}  // namespace machines
}  // namespace hpmm
