/// \file divide.hpp
/// SC division (paper Fig. 2e): CORDIV-style correlated divider,
/// Chen & Hayes ISVLSI 2016 (paper ref [6]).
///
/// For operands with SCC = +1 and pX <= pY, the quotient stream is formed by
/// passing x when y = 1 and otherwise replaying the most recent quotient bit
/// observed under y = 1 (held in a D flip-flop).  Conditioned on y = 1, x is
/// 1 with probability pX / pY (the subset property of positively correlated
/// streams), so the output value converges to the quotient.

#pragma once

#include "bitstream/bitstream.hpp"

namespace sc::arith {

/// Per-cycle CORDIV divider element.
class Cordiv {
 public:
  /// Consumes one (x, y) bit pair, emits one quotient bit.
  bool step(bool x, bool y) {
    if (y) {
      held_ = x;
      return x;
    }
    return held_;
  }
  /// The D flip-flop's content (lets a word path carry it across chunks).
  [[nodiscard]] bool held() const { return held_; }
  void set_held(bool held) { held_ = held; }
  void reset() { held_ = false; }

 private:
  bool held_ = false;  // last quotient bit sampled under y = 1
};

/// Whole-stream divide: pZ ~= pX / pY.  Requires SCC(x, y) = +1 and
/// pX <= pY; returns an all-ones-saturating approximation otherwise.
Bitstream divide(const Bitstream& x, const Bitstream& y);

}  // namespace sc::arith
