#include "model/array_fet.hpp"

#include <stdexcept>

namespace gnrfet::model {

ArrayFet::ArrayFet(std::vector<IntrinsicFet> channels) : size_(channels.size()) {
  if (channels.empty()) throw std::invalid_argument("ArrayFet: need >= 1 channel");
  const Polarity polarity = channels.front().polarity();
  for (auto& c : channels) {
    if (c.polarity() != polarity) {
      throw std::invalid_argument("ArrayFet: mixed polarities in one array");
    }
    if (!runs_.empty() && runs_.back().channel.same_model(c)) {
      ++runs_.back().count;
    } else {
      runs_.push_back({std::move(c), 1});
    }
  }
}

ArrayFet ArrayFet::uniform(const IntrinsicFet& channel, int count) {
  return ArrayFet(std::vector<IntrinsicFet>(static_cast<size_t>(count), channel));
}

ArrayFet ArrayFet::with_variants(const IntrinsicFet& nominal, const IntrinsicFet& variant,
                                 int count, int affected) {
  if (affected < 0 || affected > count) {
    throw std::invalid_argument("ArrayFet: affected count out of range");
  }
  std::vector<IntrinsicFet> channels;
  channels.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count - affected; ++i) channels.push_back(nominal);
  for (int i = 0; i < affected; ++i) channels.push_back(variant);
  return ArrayFet(std::move(channels));
}

namespace {
template <typename Run>
FetSample sum(const std::vector<Run>& runs, bool want_current, double vgs, double vds) {
  FetSample total;
  for (const auto& run : runs) {
    const FetSample s =
        want_current ? run.channel.current(vgs, vds) : run.channel.charge(vgs, vds);
    for (size_t k = 0; k < run.count; ++k) {
      total.value += s.value;
      total.d_dvgs += s.d_dvgs;
      total.d_dvds += s.d_dvds;
    }
  }
  return total;
}
}  // namespace

FetSample ArrayFet::current(double vgs, double vds) const { return sum(runs_, true, vgs, vds); }

FetSample ArrayFet::charge(double vgs, double vds) const { return sum(runs_, false, vgs, vds); }

Polarity ArrayFet::polarity() const { return runs_.front().channel.polarity(); }

}  // namespace gnrfet::model
