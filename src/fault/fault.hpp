/// \file fault.hpp
/// Composable bit-error models for fault-injection runs.
///
/// The paper's circuits are sold on SC's error tolerance, but tolerance is
/// only an argument until it is measured: this module defines *fault plans*
/// — named error models attached to the stream edges and fix circuits of a
/// registry Program — that every ExecutorBackend honours identically
/// (ExecConfig::fault_plan).  Four edge models cover the classic soft/hard
/// error taxonomy:
///
///  * stuck-at-0 / stuck-at-1 — a hard wire fault: the whole edge reads 0/1.
///  * i.i.d. bit flip at rate p — soft errors: each bit of the edge flips
///    independently with probability p.
///  * burst — correlated soft errors: the stream is tiled into windows of
///    `burst_length` bits and each window inverts wholesale with
///    probability `rate` (models a glitch that outlasts one cycle).
///
/// plus one circuit model:
///
///  * FSM state corruption — the state of a planned in-stream fix
///    (synchronizer / desynchronizer / decorrelator / chain link) is wiped
///    to its power-on value at chosen cycles (an SEU in the state register).
///
/// Determinism contract: every random decision is a pure function of
/// (plan seed, edge name, fault salt, absolute bit index) via a counter
/// based SplitMix64 hash — random access, no carried generator state — so
/// the reference and engine backends corrupt *the same bits* no
/// matter how the stream is chunked, and a failing fuzz case replays from
/// its logged seed.  Edges are addressed by the executed program's value
/// names (stable across backends and across optimizer rewrites that keep
/// the node); faults naming a value the optimizer removed — dead code,
/// folded constants, or a CSE-merged duplicate, whose *value* survives in
/// the survivor but whose named wire does not — vanish with the wire,
/// identically on every backend.  To fault through the optimizer, target
/// a value that survives it (the survivor of a merge keeps its own name).
///
/// This header is dependency-light on purpose (no graph types) so
/// graph/backend.hpp can forward-declare FaultPlan; resolution against a
/// Program lives in fault/inject.hpp.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/seeds.hpp"

namespace sc::fault {

/// Edge error model taxonomy (see file comment).
enum class ErrorKind : std::uint8_t {
  kStuckAt0,
  kStuckAt1,
  kBitFlip,
  kBurst,
};

std::string to_string(ErrorKind kind);

/// One error model attached to one named stream edge (a program value
/// name: input, constant, or op output).  The fault corrupts the node's
/// output bits, so it is seen by the node's own measured value and by
/// every consumer — exactly the blast radius of a fault on that wire.
struct EdgeFault {
  std::string edge;              ///< program value name the fault sits on
  ErrorKind kind = ErrorKind::kBitFlip;
  double rate = 0.01;            ///< per-bit / per-window probability
  std::size_t burst_length = 16; ///< window size of kBurst, in bits (>= 1)
  /// Distinguishes multiple faults of one kind on one edge (each salt is
  /// an independent error process).
  std::uint32_t salt = 0;
  /// Active window [begin, end) in absolute bit indices: the fault only
  /// corrupts bits inside it (default: the whole stream).  Models
  /// transient faults — a line stuck for a few thousand cycles, a glitch
  /// burst during one window — and gives directed tests exact positional
  /// control (e.g. a flip placed on a kernel chunk boundary).
  std::size_t begin = 0;
  std::size_t end = std::numeric_limits<std::size_t>::max();
};

/// FSM state corruption of a planned in-stream fix: at each matching cycle
/// the fix circuit's state resets to power-on (credit/saved counters wiped,
/// shuffle buffers emptied, aux RNGs rewound).  Regeneration fixes have no
/// per-cycle FSM and are unaffected.  When the optimizer's sharing pass
/// has marked the targeted fix as one physical circuit fanning out to
/// sibling consumers (PairFix::shared_with), the wipe hits every
/// consumer's mirror at the same cycles — one state register in hardware,
/// one blast radius in simulation.
struct FsmFault {
  std::string op;         ///< name of the op node whose planned fixes to hit
  std::size_t first = 0;  ///< first corrupted cycle (absolute bit index)
  /// Corrupt every `period` cycles from `first` on; 0 = only at `first`.
  std::size_t period = 0;
  /// Which fix of the op to corrupt, in ProgramPlan::fixes_for order;
  /// -1 corrupts every fix planned for the op.
  std::int32_t lane = -1;
};

/// A full injection campaign: any number of edge and FSM faults under one
/// master seed.  Plans are plain data — build them inline, share them
/// across runs, sweep them (fault/sweep.hpp).
struct FaultPlan {
  std::uint64_t seed = 0xFA170;  ///< master seed of every error process
  std::vector<EdgeFault> edges;
  std::vector<FsmFault> fsms;

  [[nodiscard]] bool empty() const { return edges.empty() && fsms.empty(); }
};

// ------------------------------------------------------------ fault hashes
//
// Exposed so tests can audit the error processes (rate accuracy, pairwise
// independence across edges) without running a backend.

/// FNV-1a over the edge name: the name-stable half of a fault's key.
inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Key of one fault's error process: distinct (seed, edge, kind, salt)
/// give independent SplitMix64 streams.
inline std::uint64_t fault_key(std::uint64_t seed, const std::string& edge,
                               ErrorKind kind, std::uint32_t salt) {
  return graph::seeds::splitmix64(
      graph::seeds::splitmix64(seed ^ fnv1a(edge)) ^
      ((static_cast<std::uint64_t>(salt) << 8) |
       static_cast<std::uint64_t>(kind)));
}

/// i-th draw of the key's error process: the canonical SplitMix64 sequence
/// seeded at `key` (state advances by the golden-ratio gamma per index, so
/// this is random access into the same stream a sequential generator would
/// emit).
inline std::uint64_t hash_at(std::uint64_t key, std::uint64_t index) {
  return graph::seeds::splitmix64(key + index * 0x9E3779B97F4A7C15ULL);
}

/// True when the i-th draw of `key` fires at probability `rate`.
inline bool draw_at(std::uint64_t key, std::uint64_t index, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // rate < 1 keeps the product below 2^64, so the cast is exact enough:
  // the threshold is within one ulp-of-double of rate * 2^64.
  const auto threshold =
      static_cast<std::uint64_t>(rate * 18446744073709551616.0);
  return hash_at(key, index) < threshold;
}

}  // namespace sc::fault
