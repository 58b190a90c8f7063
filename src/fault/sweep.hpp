/// \file sweep.hpp
/// Resilience analysis: how the paper's correlation circuits degrade under
/// injected bit errors.
///
/// Two experiment families over small two-input circuits:
///
///  * Error-rate sweep — i.i.d. bit flips at rate p on both input edges,
///    swept over p x circuit x correlation regime.  Reported per cell:
///    SCC drift of the input pair (flips erode engineered correlation:
///    a shared-trace +1 pair decays toward 0 as p grows) and output value
///    error, clean vs faulted.  This is the ReCo1 observation (Mitra et
///    al., 2021) made measurable: correlation-*dependent* circuits (max /
///    min riding on SCC = +1) lose both value accuracy and their
///    correlation assumption, while decorrelated pipelines only see the
///    value perturbation — independence survives i.i.d. flips.
///
///  * FSM corruption recovery — a planned fix circuit's state register is
///    wiped mid-stream (fault.hpp's SEU model) and the faulted output is
///    diffed against the clean run: how many output bits change, and how
///    long until the outputs re-agree for good (*recovery depth*).  Small
///    saved-state FSMs (synchronizer / desynchronizer) re-converge within
///    a few disagreement cycles; shuffle-buffer circuits replay a shifted
///    address schedule and can stay divergent to the end of the stream —
///    the depth column quantifies exactly that asymmetry.
///
/// The static analyzer (analysis/analyzer.hpp) prices the same asymmetry
/// at compile time: FixFragility weighs each planned circuit's saved
/// state by a persistence factor calibrated against the recovery-depth
/// split measured here (FSM fixes re-converge in a few cycles; shuffle
/// buffers replay a shifted schedule and may never).  plan_fragility()
/// is the zero-execution estimate; this sweep is its ground truth.

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/backend.hpp"

namespace sc::fault {

struct SweepConfig {
  std::size_t stream_length = 4096;
  /// SNG width: period 2^13 - 1 = 8191 covers the default stream without
  /// the trace wrapping (2^12 - 1 would fall one sample short); raise it
  /// along with stream_length for longer sweeps.
  unsigned width = 13;
  std::uint32_t seed = 3;    ///< base seed of the executed programs
  std::uint64_t fault_seed = 0xFA170;
  /// Injected i.i.d. flip rates; a clean (rate 0) reference column is
  /// always measured per circuit.
  std::vector<double> rates = {0.001, 0.01, 0.05, 0.1};
};

/// One (circuit, regime, rate) cell of the error-rate sweep.
struct SweepRow {
  std::string circuit;  ///< operator under test ("max", "min", "multiply"...)
  std::string regime;   ///< input correlation regime (see sweep())
  double rate = 0.0;    ///< injected i.i.d. flip rate per input edge
  double scc_clean = 0.0;   ///< input-pair SCC without faults
  double scc_faulty = 0.0;  ///< input-pair SCC under injection
  double err_clean = 0.0;   ///< |output - exact| without faults
  double err_faulty = 0.0;  ///< |output - exact| under injection
  /// Error against the *intended function of the measured input values*:
  /// |output - f(x_measured, y_measured)|.  Flips perturb every circuit's
  /// input values identically; what separates the resilience classes is
  /// whether the circuit still computes f on whatever values it receives.
  /// A correlation-dependent OR-max stops being max when flips erode
  /// SCC = +1; a decorrelated AND-multiply keeps computing the product.
  /// Unlike err_*, this isolates that breakdown from input drift and SC
  /// sampling noise, so the ReCo1 ordering is resolvable at short
  /// stream lengths too.
  double func_err_clean = 0.0;
  double func_err_faulty = 0.0;

  [[nodiscard]] double scc_drift() const { return std::abs(scc_faulty - scc_clean); }
  [[nodiscard]] double err_inflation() const { return err_faulty - err_clean; }
  [[nodiscard]] double func_err_inflation() const {
    return func_err_faulty - func_err_clean;
  }
};

/// One FSM-corruption experiment: a mid-stream state wipe of one fix.
struct RecoveryRow {
  std::string fix;      ///< corrupted circuit ("synchronizer", ...)
  std::string circuit;  ///< host operator
  std::size_t corrupt_cycle = 0;
  std::size_t disturbed_bits = 0;  ///< output bits differing from clean
  /// Cycles from the corruption to the last differing output bit (0 when
  /// the wipe was invisible); a depth of stream_length - corrupt_cycle
  /// means the very last bit still differed — the output never
  /// re-converged.
  std::size_t recovery_depth = 0;
};

struct SweepReport {
  std::vector<SweepRow> rows;
  std::vector<RecoveryRow> recovery;

  /// Mean func_err_inflation of one (circuit, regime) over rates >=
  /// `min_rate` (tiny rates are sampling noise at these stream lengths).
  [[nodiscard]] double mean_inflation(const std::string& circuit,
                                      const std::string& regime,
                        double min_rate = 0.01) const;

  /// The acceptance bar, after ReCo1: the decorrelated multiply pipeline
  /// degrades more gracefully under i.i.d. flips than the
  /// correlation-dependent max and min — strictly smaller mean
  /// function-error inflation (see SweepRow::func_err_clean).
  [[nodiscard]] bool reco1_ordering_holds() const;
};

/// Runs both experiment families on the engine backend.  Circuits x regimes:
///   max / min   "correlated"     shared-trace inputs, no fix (SCC = +1)
///   multiply    "decorrelated"   shared-trace inputs + planned decorrelator
///   multiply    "independent"    independent inputs, no fix
///   max         "resynchronized" independent inputs + planned synchronizer
///   scaled-add  "agnostic"       independent inputs, requirement-free
/// Recovery experiments wipe the synchronizer, desynchronizer,
/// decorrelator, and chain-link fixes at stream_length / 2.
SweepReport sweep(const SweepConfig& config = {});

}  // namespace sc::fault
