#include "util/bitset.hpp"

#include <bit>

namespace owlcl {

void DynamicBitset::resize(std::size_t nbits, bool value) {
  const std::size_t oldBits = nbits_;
  nbits_ = nbits;
  words_.resize(wordCount(nbits), value ? ~Word{0} : Word{0});
  if (value && nbits > oldBits && oldBits % kWordBits != 0) {
    // Fill the tail of the previously-last word.
    words_[oldBits / kWordBits] |= ~Word{0} << (oldBits % kWordBits);
  }
  trimTail();
}

void DynamicBitset::setAll() {
  for (auto& w : words_) w = ~Word{0};
  trimTail();
}

void DynamicBitset::resetAll() {
  for (auto& w : words_) w = 0;
}

std::size_t DynamicBitset::count() const {
  return static_cast<std::size_t>(popcountWords(words_.data(), words_.size()));
}

bool DynamicBitset::none() const {
  for (Word w : words_)
    if (w != 0) return false;
  return true;
}

std::size_t DynamicBitset::findFirst() const {
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    if (words_[wi] != 0)
      return wi * kWordBits + static_cast<std::size_t>(std::countr_zero(words_[wi]));
  }
  return nbits_;
}

std::size_t DynamicBitset::findNext(std::size_t i) const {
  ++i;
  if (i >= nbits_) return nbits_;
  std::size_t wi = i / kWordBits;
  Word w = words_[wi] & (~Word{0} << (i % kWordBits));
  while (true) {
    if (w != 0) return wi * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
    if (++wi >= words_.size()) return nbits_;
    w = words_[wi];
  }
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& o) {
  OWLCL_ASSERT(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& o) {
  OWLCL_ASSERT(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator-=(const DynamicBitset& o) {
  OWLCL_ASSERT(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
  return *this;
}

bool DynamicBitset::isSubsetOf(const DynamicBitset& o) const {
  OWLCL_ASSERT(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & ~o.words_[i]) != 0) return false;
  return true;
}

bool DynamicBitset::intersects(const DynamicBitset& o) const {
  OWLCL_ASSERT(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & o.words_[i]) != 0) return true;
  return false;
}

void DynamicBitset::toVector(std::vector<std::uint32_t>& out) const {
  for (std::size_t i = findFirst(); i < nbits_; i = findNext(i))
    out.push_back(static_cast<std::uint32_t>(i));
}

void DynamicBitset::assignWords(const Word* src, std::size_t n) {
  OWLCL_ASSERT(n >= words_.size());
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] = src[i];
  trimTail();
}

void DynamicBitset::trimTail() {
  if (nbits_ % kWordBits != 0 && !words_.empty())
    words_.back() &= ~(~Word{0} << (nbits_ % kWordBits));
}

}  // namespace owlcl
