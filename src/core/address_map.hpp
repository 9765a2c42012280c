// Physical-address to DRAM-coordinate mapping with a configurable
// interleaving base bit (paper Fig. 11, evaluated in Fig. 12).
//
// Bit layout from LSB to MSB:
//   [line offset (6b)] [column-low (iB-6)] [channel] [rank] [bank] [μbank]
//   [column-high] [row]
//
// iB = 6 interleaves consecutive cache lines across channels/banks/μbanks
// ("cache-line interleaving"); iB = 6 + log2(linesPerUbankRow) places the
// whole μbank row contiguously before the channel/bank fields ("page
// interleaving" — iB = 13 for an unpartitioned 8 KB row). Intermediate
// values split the column field around the channel/bank/μbank fields.
#pragma once

#include <cstdint>
#include <string>

#include "dram/geometry.hpp"

namespace mb::core {

/// Decomposed DRAM coordinates for one cache-line address.
struct DramAddress {
  int channel = 0;
  int rank = 0;
  int bank = 0;
  int ubank = 0;  // 0 .. nW*nB-1 within the bank
  std::int64_t row = 0;
  std::int64_t column = 0;  // cache-line granularity within the μbank row

  bool operator==(const DramAddress&) const = default;

  /// Flat identifier of the μbank within the system (useful as a map key).
  std::int64_t flatUbank(const dram::Geometry& g) const;
  std::string toString() const;
};

class AddressMap {
 public:
  /// interleaveBaseBit (iB) must lie in [6, 6 + log2(linesPerUbankRow)].
  /// With `xorBankHash`, the bank and μbank fields are XOR-folded with low
  /// row bits (permutation-based interleaving): rows that would collide in
  /// one bank under the plain layout spread across banks, the classic
  /// system-level remedy for bank conflicts that μbank competes with.
  AddressMap(const dram::Geometry& geometry, int interleaveBaseBit,
             bool xorBankHash = false);

  DramAddress decompose(std::uint64_t physicalAddress) const;
  /// decompose(physicalAddress).channel without the other fields (the
  /// channel field is never XOR-folded).
  int channelOf(std::uint64_t physicalAddress) const {
    return static_cast<int>((physicalAddress >> (6 + colLowBits_)) &
                            ((std::uint64_t{1} << chBits_) - 1));
  }
  std::uint64_t compose(const DramAddress& addr) const;

  int interleaveBaseBit() const { return iB_; }
  bool xorBankHash() const { return xorHash_; }
  int minBaseBit() const { return 6; }
  int maxBaseBit() const { return 6 + colBits_; }
  const dram::Geometry& geometry() const { return geom_; }

  /// Page interleaving: the whole μbank row below the channel bits.
  static AddressMap pageInterleaved(const dram::Geometry& g) {
    return AddressMap(g, 6 + exactLog2(g.linesPerUbankRow()));
  }
  /// Cache-line interleaving: channel bits directly above the line offset.
  static AddressMap lineInterleaved(const dram::Geometry& g) { return AddressMap(g, 6); }

 private:
  dram::Geometry geom_;
  int iB_;
  bool xorHash_;
  int colBits_;      // log2(lines per μbank row)
  int colLowBits_;   // column bits below the channel field (= iB - 6)
  int chBits_, rankBits_, bankBits_, ubankBits_;
};

}  // namespace mb::core
